"""A differential net on small random presentation files.

Hypothesis (QuickCheck, Claessen & Hughes, ICFP 2000) draws presentations:
p in {2, 3, 5, 7}, up to 6 generators of degree 1-3 (exterior exactly when
the degree is odd at an odd prime), up to 4 homogeneous relations and a cap
of at most 10.  Each file goes through ``parse_presentation``, the path of
``hilbert FILE``, and every dimension through the cap is checked against an
oracle that shares no code with the package: the free monomials of the
degree (``helpers.oracle_monomials``) less the rank (``helpers.oracle_rank``)
of the rows cofactor x relation, each product taken by
``helpers.oracle_monomial_product``.  The runs are derandomized and keep no
example database, so the suite is reproducible; a failure shrinks to a
minimal file, which the report prints.
"""

from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from coniveau.parser import parse_presentation

from helpers import oracle_monomial_product, oracle_monomials, oracle_rank

# The most free monomials in one degree of a drawn file: the oracle's dense
# elimination is cubic, so the cap is lowered until every degree through it
# stays within this.
MAX_COLUMNS = 30


@st.composite
def presentations(draw):
    """(file text, prime, generator degrees, exterior flags, cap,
    [(relation terms, relation degree)])."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    odd = [p != 2 and g % 2 == 1 for g in degrees]
    top = max(degrees)
    cap = top
    for d in range(top + 1, draw(st.integers(top, 10)) + 1):
        if len(oracle_monomials(degrees, odd, d)) > MAX_COLUMNS:
            break
        cap = d
    occupied = [d for d in range(1, cap + 1) if oracle_monomials(degrees, odd, d)]
    relations = []
    for _ in range(draw(st.integers(0, 4))):
        r = draw(st.sampled_from(occupied))
        monos = oracle_monomials(degrees, odd, r)
        picks = draw(st.lists(
            st.tuples(st.integers(0, len(monos) - 1), st.integers(1, p - 1)),
            min_size=1, max_size=4,
        ))
        relations.append(({monos[i]: c for i, c in picks}, r))
    names = [f"x{i}" for i in range(1, len(degrees) + 1)]
    lines = [f"prime {p}", f"cap {cap}"] + [f"gen {x} {g}" for x, g in zip(names, degrees)]
    for terms, _ in relations:
        lines.append("rel " + " + ".join(
            "*".join([str(c)] * (c > 1) + [x + f"^{e}" * (e > 1) for x, e in zip(names, m) if e])
            for m, c in terms.items()
        ))
    return "\n".join(lines) + "\n", p, degrees, odd, cap, relations


def oracle_dimension(p, degrees, odd, relations, d) -> int:
    """The degree's free monomials less the rank of the cofactor x relation
    rows, on dense lists."""
    monos = oracle_monomials(degrees, odd, d)
    column = {m: j for j, m in enumerate(monos)}
    rows = []
    for terms, r in relations:
        if r > d:
            continue
        for u in oracle_monomials(degrees, odd, d - r):
            row = [0] * len(monos)
            for t, c in terms.items():
                prod = oracle_monomial_product(u, t, odd)
                if prod is not None:
                    m, sign = prod
                    row[column[m]] += sign * c
            rows.append(row)
    return len(monos) - (oracle_rank(rows, p) if rows else 0)


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(presentations())
def test_dimensions_against_cofactor_rows(drawn):
    text, p, degrees, odd, cap, relations = drawn
    note(text)
    want = [oracle_dimension(p, degrees, odd, relations, d) for d in range(cap + 1)]
    # degree by degree from the bottom, and the whole series at once, each on
    # a fresh presentation
    pres = parse_presentation(text).presentation
    assert [pres.dimension(d) for d in range(cap + 1)] == want
    assert parse_presentation(text).presentation.hilbert_series() == want
