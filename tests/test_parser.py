"""Presentation file format: parsing, error positions, round trips."""

import pytest

from coniveau.parser import (
    MAX_NESTING, ParseError, parse_expression, parse_presentation, render_presentation,
)

SAMPLE = """\
# rank-2 exterior quotient
prime 3
cap 10
gen x1 1 odd
gen x2 1 odd
gen x3 1 odd
gen x4 1 odd
rel x1*x2 + x3*x4
Q 0 x1 = 0
alias top = x1*x3
"""


def test_parse_basic():
    data = parse_presentation(SAMPLE)
    pres = data.presentation
    assert pres.prime == 3 and pres.degree_cap == 10
    assert [g.name for g in pres.generators] == ["x1", "x2", "x3", "x4"]
    assert len(pres.relations) == 1
    assert (pres.gen("x1") * pres.gen("x2") + pres.gen("x3") * pres.gen("x4")).is_zero()
    assert data.aliases["top"] == pres.gen("x1") * pres.gen("x3")
    assert data.q_table[(0, "x1")].is_zero()


def test_weights_and_parity():
    data = parse_presentation("prime 2\ncap 8\ngen t 1 weight 1\ngen u 2 even weight -1\n")
    g = data.presentation.generators
    assert g[0].weight == 1 and g[1].weight == -1


def test_expression_parsing():
    data = parse_presentation("prime 5\ncap 12\ngen y 2\ngen z 2\n")
    pres = data.presentation
    names = {"y": pres.gen("y"), "z": pres.gen("z")}
    e = parse_expression(pres, names, "(y + 2*z)^2 - y^2")
    y, z = pres.gen("y"), pres.gen("z")
    assert e == 4 * y * z + 4 * z * z


def test_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_presentation("prime 3\ncap 8\ngen x 1\nrel x $ x\n")
    assert exc.value.line == 4
    assert exc.value.column > 0

    with pytest.raises(ParseError) as exc:
        parse_presentation("prime 3\ncap 8\ngen x 1\nrel x + nope\n")
    assert "nope" in str(exc.value) and exc.value.line == 4


HEAD = "prime 3\ncap 8\ngen x1 1\ngen y 2\n"


@pytest.mark.parametrize(
    "line,column,message",
    [
        # columns count from the start of the line, not of the expression
        ("rel zz", 5, "unknown name 'zz'"),
        ("  rel  x1 $ y", 11, "unexpected character '$'"),
        ("n1 a = x1 x1", 11, "unexpected token 'x1'"),
        ("Q 0 zz = y", 5, "unknown generator 'zz'"),
        # an expression that ends early points one past its last character
        ("rel x1 +", 9, "unexpected end of expression"),
        ("chern c = x1^", 14, "unexpected end of expression"),
        ("alias a = (x1", 14, "unexpected end of expression"),
        ("Q 0 x1 = y +   # trailing comment", 13, "unexpected end of expression"),
        ("alias a =", 10, "unexpected end of expression"),
    ],
)
def test_error_columns_exact(line, column, message):
    with pytest.raises(ParseError) as exc:
        parse_presentation(HEAD + line + "\n")
    assert (exc.value.line, exc.value.column) == (5, column)
    assert str(exc.value) == f"line 5, column {column}: {message}"


def test_expression_error_columns():
    data = parse_presentation(HEAD)
    names = {"x1": data.presentation.gen("x1")}
    with pytest.raises(ParseError, match="column 4: unexpected end") as exc:
        parse_expression(data.presentation, names, "x1+")
    with pytest.raises(ParseError, match="column 1: unknown name 'zz'"):
        parse_expression(data.presentation, names, "zz")
    assert exc.value.line == 1


@pytest.mark.parametrize(
    "text,line,message",
    [
        # superscript digits pass str.isdigit but not int(): a parse error with
        # a position, not int()'s own message
        ("prime \u00b3\ncap 8\ngen x 1\n", 1, "expected integer after 'prime'"),
        ("prime 3\ncap \u00b2\ngen x 1\n", 2, "expected integer after 'cap'"),
        ("prime 3\ncap 8\ngen y1 \u00b2\n", 3, "expected 'gen NAME DEGREE [even|odd] [weight W]'"),
        ("prime 3\ncap 8\ngen y1 2 weight \u00b2\n", 3, "expected integer after 'weight'"),
    ],
    ids=["prime", "cap", "gen", "weight"],
)
def test_superscript_digits_refused_with_position(text, line, message):
    with pytest.raises(ParseError) as exc:
        parse_presentation(text)
    assert str(exc.value) == f"line {line}, column 1: {message}"


@pytest.mark.parametrize(
    "text,line,column,message",
    [
        # a name no expression could refer to
        ("prime 3\ncap 8\ngen x+y 2\n", 3, 5, "generator name 'x+y' is not an identifier"),
        ("prime 3\ncap 8\ngen x 1\n  gen x 2\n", 4, 7, "duplicate generator 'x'"),
        ("prime 3\ncap 8\ngen x 0\n", 3, 7, "generator x: degree must be >= 1"),
        ("prime 3\ncap 8\ngen x 9\n", 3, 7, "generator x: degree 9 above the cap 8"),
        ("prime 3\ncap 8\ngen x 2 odd\n", 3, 9,
         "generator x: parity 'odd' contradicts degree 2 at odd p"),
        ("prime 2\ncap 8\ngen x 1 weight 1 odd\n", 3, 18,
         "generator x: exterior generators do not exist at p = 2"),
        ("prime 3\ncap 8\ngen x 1 heavy\n", 3, 9, "unknown generator attribute 'heavy'"),
        # an alias may not stand in for a generator in later expressions
        ("prime 3\ncap 8\ngen x 1\ngen y 2\nalias x = y\n", 5, 7,
         "alias x would shadow the generator x"),
    ],
    ids=["name", "duplicate", "degree-0", "above-cap", "parity", "p2-exterior", "attribute",
         "alias"],
)
def test_generator_errors_carry_their_column(text, line, column, message):
    with pytest.raises(ParseError) as exc:
        parse_presentation(text)
    assert str(exc.value) == f"line {line}, column {column}: {message}"


@pytest.mark.parametrize(
    "text,column,message",
    [
        ("prime 4\ncap 8\ngen x 2\n", 7, "not a prime: 4"),
        ("  prime   1\ncap 8\ngen x 2\n", 11, "not a prime: 1"),
        ("prime 1048583\ncap 8\ngen x 2\n", 7,
         "prime 1048583 above the supported maximum 1048573"),
    ],
    ids=["composite", "one", "above-maximum"],
)
def test_bad_prime_carries_its_column(text, column, message):
    with pytest.raises(ParseError) as exc:
        parse_presentation(text)
    assert str(exc.value) == f"line 1, column {column}: {message}"


def test_statement_order_enforced():
    with pytest.raises(ParseError):
        parse_presentation("gen x 1\nprime 3\ncap 8\n")
    with pytest.raises(ParseError):
        parse_presentation("prime 3\ncap 8\nbogus x\n")


def test_relation_must_be_homogeneous():
    text = "prime 3\ncap 8\ngen y 2\ngen x 1\nrel y + x\n"
    with pytest.raises(ParseError):
        parse_presentation(text)


def test_chern_flag_must_be_homogeneous():
    # the flag used to parse and fail later inside the Chern test with only
    # "element has degrees [1, 2]"
    text = "prime 3\ncap 8\ngen y1 2\ngen x1 1\nchern c0 = y1\nchern c1 = y1 + x1\n"
    with pytest.raises(ParseError, match="chern flag c1 is not homogeneous") as exc:
        parse_presentation(text)
    assert exc.value.line == 6


def test_n1_class_must_be_homogeneous():
    # the stable ring is built on first read, so a mixed n1 class is refused
    # here, for every command, and not only when the quotient is built
    text = "prime 3\ncap 8\ngen y1 2\ngen x1 1\nn1 t0 = y1\nn1 t1 = y1 + x1\n"
    with pytest.raises(ParseError, match="n1 class t1 is not homogeneous") as exc:
        parse_presentation(text)
    assert exc.value.line == 6


def test_q_line_shape():
    text = "prime 3\ncap 12\ngen y 2\ngen x 1\nQ 0 x = y\nQ 1 x = y^3\n"
    data = parse_presentation(text)
    assert data.max_q_index == 1
    assert data.q_table[(1, "x")] == data.presentation.gen("y") ** 3
    with pytest.raises(ParseError):
        parse_presentation("prime 3\ncap 8\ngen x 1\nQ x = x\n")


def test_render_parse_round_trip():
    data = parse_presentation(SAMPLE)
    text = render_presentation(
        data.presentation, q_table=data.q_table, aliases=data.aliases
    )
    again = parse_presentation(text)
    assert render_presentation(
        again.presentation, q_table=again.q_table, aliases=again.aliases
    ) == text


def test_unknown_name_error():
    data = parse_presentation("prime 2\ncap 6\ngen x 1\n")
    with pytest.raises(ParseError):
        parse_expression(data.presentation, {"x": data.presentation.gen("x")}, "x * w")


def test_nesting_bound():
    # MAX_NESTING levels of parentheses parse; one more is refused at the
    # opening parenthesis past the bound, not by the interpreter's recursion
    data = parse_presentation("prime 2\ncap 6\ngen x 1\n")
    names = {"x": data.presentation.gen("x")}
    deep = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_expression(data.presentation, names, deep) == names["x"]
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING}") as info:
        parse_expression(data.presentation, names, "x + (" + deep + ")", line=4, col0=3)
    # that parenthesis is character 4 + MAX_NESTING of the text, which starts
    # after column 3
    assert (info.value.line, info.value.column) == (4, 3 + (4 + MAX_NESTING) + 1)
