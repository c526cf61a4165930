"""Operation tables: Leibniz extension and axioms."""

import random

import pytest

from coniveau import certificates as C
from coniveau.fp import DegreeCapError, Generator, GradedPresentation
from coniveau.milnor import (
    QAction,
    QActionError,
    op_degree,
    validate_q_axioms,
)


def abelian_ring(p, n, cap=30):
    gens = [Generator(f"y{i}", 2) for i in range(1, n + 1)]
    gens += [Generator(f"x{i}", 1) for i in range(1, n + 1)]
    return GradedPresentation(p, gens, cap)


def abelian_table(pres, max_index=2):
    p = pres.prime
    n = len(pres.generators) // 2
    table = {}
    for i in range(max_index + 1):
        for j in range(1, n + 1):
            table[(i, f"y{j}")] = pres.zero()
            table[(i, f"x{j}")] = pres.gen(f"y{j}") ** (p**i)
    return table


def abelian_action(pres, max_index=2):
    return QAction(pres, table=abelian_table(pres, max_index), max_index=max_index)


def test_op_degree():
    assert op_degree(2, 0) == 1 and op_degree(2, 2) == 7
    assert op_degree(3, 1) == 5


def test_q0_on_generator():
    P = abelian_ring(3, 2)
    act = abelian_action(P)
    assert act.apply(0, P.gen("x1")) == P.gen("y1")


def test_qi_power_rule():
    P = abelian_ring(5, 1)
    act = abelian_action(P, max_index=1)
    assert act.apply(1, P.gen("x1")) == P.gen("y1") ** 5


def test_leibniz_two_factors():
    P = abelian_ring(3, 2)
    act = abelian_action(P)
    x1, x2, y1, y2 = P.gen("x1"), P.gen("x2"), P.gen("y1"), P.gen("y2")
    assert act.apply(0, x1 * x2) == y1 * x2 - x1 * y2


def test_sequence_single_zero_index():
    P = abelian_ring(3, 3)
    act = abelian_action(P)
    x1, x2, x3 = (P.gen(f"x{i}") for i in range(1, 4))
    y1, y2, y3 = (P.gen(f"y{i}") for i in range(1, 4))
    value, trail = act.apply_sequence((0,), x1 * x2 * x3)
    assert value == y1 * x2 * x3 - x1 * y2 * x3 + x1 * x2 * y3
    assert len(trail) == 1 and trail[0] == value


def test_leading_monomial_of_detection_value():
    # the certified value of the rank-3 flagship contains y1^p * y2 * x3
    P = abelian_ring(3, 3)
    act = abelian_action(P)
    top = P.gen("x1") * P.gen("x2") * P.gen("x3")
    value, _ = act.apply_sequence((0, 1), top)
    assert value.terms.get((3, 1, 0, 0, 0, 1))  # y1^3 y2 x3


def test_nilpotence_applied_twice():
    P = abelian_ring(3, 2)
    act = abelian_action(P)
    e = P.gen("x1") * P.gen("x2")
    assert act.apply(1, act.apply(1, e)).is_zero()


def test_degree_bookkeeping_rejected():
    P = abelian_ring(3, 1)
    with pytest.raises(QActionError):
        QAction(P, table={(0, "x1"): P.gen("y1") ** 2}, max_index=0)


def test_index_beyond_table():
    P = abelian_ring(3, 1)
    act = abelian_action(P, max_index=1)
    with pytest.raises(QActionError):
        act.apply(2, P.gen("x1"))


def test_cap_overflow():
    P = abelian_ring(3, 1, cap=6)
    act = abelian_action(P, max_index=1)
    with pytest.raises(DegreeCapError):
        act.apply(1, P.gen("x1") * P.gen("y1"))  # 3 + 5 = 8 > 6


def test_validate_elementary_table():
    P = abelian_ring(3, 2, cap=24)
    act = abelian_action(P)
    report = validate_q_axioms(act)
    assert report.ok and report.checked > 0


def test_validate_corrupted_table():
    P = abelian_ring(3, 2, cap=24)
    table = abelian_table(P)
    table[(0, "x1")] = P.gen("x1") * P.gen("x2")  # Q_0^2(x1) = -x1*y2 != 0
    act = QAction(P, table=table, max_index=2)
    report = validate_q_axioms(act)
    assert not report.ok
    assert "Q_0^2(x1)" in report.first_counterexample()


def test_relabelled_table_passes_generator_axioms():
    # Swapping Bockstein images still extends to a derivation with vanishing
    # composites, so the generator-level axioms cannot flag it: validation
    # guards consistency, not agreement with any particular action.
    P = abelian_ring(3, 2, cap=24)
    table = abelian_table(P)
    table[(0, "x1")] = P.gen("y2")
    table[(1, "x1")] = P.gen("y1") ** 3
    act = QAction(P, table=table, max_index=2)
    assert validate_q_axioms(act).ok


def test_validate_relation_compatibility():
    # ideal (x1*y1) is not stable under Q_0: the table must be flagged
    P = abelian_ring(3, 1, cap=24)
    Q = P.quotient([P.gen("x1") * P.gen("y1")])
    table = {
        (0, "x1"): Q.gen("y1"),
        (0, "y1"): Q.zero(),
    }
    act = QAction(Q, table=table, max_index=0)
    report = validate_q_axioms(act)
    assert not report.ok
    assert any("relation" in f for f in report.failures)


def test_skipped_counted():
    P = abelian_ring(3, 1, cap=30)
    act = abelian_action(P, max_index=2)
    report = validate_q_axioms(act, cap=8)  # Q_1 Q_1 lands in degree 11 > 8
    assert report.skipped > 0


# -- the per-monomial Leibniz cache ---------------------------------------------


def uncached_apply(action, i, terms):
    """Q_i on a raw term map, term by term with no cache: the raw Leibniz
    products left * Q_i(g_k) * right, summed and reduced once."""
    pres, p = action.pres, action.pres.prime
    shift = op_degree(p, i)
    for m in terms:
        if pres.monomial_degree(m) + shift > pres.degree_cap:
            raise DegreeCapError(f"Q_{i} lands in degree {pres.monomial_degree(m) + shift}, above cap")
    raw = {}
    for m, c in terms.items():
        prefix_deg = 0
        for k, ek in enumerate(m):
            if ek and (ek * c) % p:
                coeff = -(ek * c) if p != 2 and prefix_deg % 2 else ek * c
                left = m[:k] + (ek - 1,) + (0,) * (len(m) - k - 1)
                right = (0,) * (k + 1) + m[k + 1:]
                for t, ct in action.entry(i, pres.generators[k].name).terms.items():
                    prod = pres._mul_monomials(left, t)
                    if prod is None:
                        continue
                    prod2 = pres._mul_monomials(prod[0], right)
                    if prod2 is None:
                        continue
                    raw[prod2[0]] = raw.get(prod2[0], 0) + prod[1] * prod2[1] * coeff * ct
            prefix_deg += ek * pres.generators[k].degree
    return pres.element(raw)


def cache_pool():
    """(detection ring, action) of scenarios with and without exterior
    generators, a splitting ring, a cover, and a quotient with relations."""
    scenarios = [
        C.elementary_abelian(2, 4),
        C.elementary_abelian(3, 3),
        C.so_odd(2),
        C.g2_scenario(),
        C.extraspecial_e(3, 3),
        C.extraspecial_d(2),
    ]
    pool = [(s.detect_pres, s.q_action) for s in scenarios]
    P = abelian_ring(3, 2, cap=24)
    Q = P.quotient([P.gen("y1") ** 3 * P.gen("x2") - P.gen("y2") ** 3 * P.gen("x1")])
    pool.append((Q, abelian_action(Q)))
    return pool + exterior_valued_pool()


def exterior_valued_pool():
    """Free rings whose generator lists interleave even and odd generators,
    with seeded random Q_0 tables whose every value has a term with an
    exterior factor.  No built-in table does, so among these rings only
    they meet the sign of an exterior factor of Q_0(g_k) crossing the
    exterior factors of the monomial on its way to slot k, and the products
    an exterior square kills."""
    rng = random.Random(0x1E1B)
    pool = []
    for p, degrees in ((3, (1, 2, 1, 3, 2, 1)), (5, (2, 1, 1, 2, 3, 1)), (3, (3, 1, 2, 1, 1, 2))):
        pres = GradedPresentation(p, [Generator(f"g{j}", d) for j, d in enumerate(degrees, 1)], 12)
        odd = [j for j, d in enumerate(degrees) if d % 2]
        table = {}
        for g in pres.generators:
            monos = pres.monomials(g.degree + 1)
            carrying = [m for m in monos if any(m[j] for j in odd)]
            terms = {rng.choice(carrying): rng.randint(1, p - 1)}
            for _ in range(rng.randint(0, 3)):
                terms[rng.choice(monos)] = rng.randint(1, p - 1)
            table[(0, g.name)] = pres.element(terms)
        pool.append((pres, QAction(pres, table=table, max_index=0)))
    return pool


def test_cached_application_matches_uncached():
    # seeded elements of several rings, each applied twice so that the second
    # call reads every column from the cache, and the relations' free-ring
    # terms as validate_q_axioms passes them
    rng = random.Random(0xC0105)
    checks = 0
    for pres, action in cache_pool():
        for _ in range(40):
            i = rng.randint(0, action.max_index)
            room = pres.degree_cap - op_degree(pres.prime, i)
            d = rng.randint(1, min(room, 12))
            monos = pres.monomials(d)
            if not monos:
                continue
            e = pres.element({monos[rng.randrange(len(monos))]: rng.randint(1, pres.prime - 1)
                              for _ in range(rng.randint(1, 5))})
            expected = uncached_apply(action, i, e.terms)
            assert action.apply(i, e) == expected, (pres, i, str(e))
            cached = len(action._columns)
            assert action.apply(i, e) == expected
            assert len(action._columns) == cached
            checks += 1
        for r in pres.relations:
            for i in range(action.max_index + 1):
                if r.degree() + op_degree(pres.prime, i) <= pres.degree_cap:
                    assert action.apply_raw_terms(i, r.terms) == uncached_apply(action, i, r.terms)
                    checks += 1
    assert checks > 200


def test_cached_application_cap_message():
    # a term over the cap raises the uncached path's message, for the same
    # first term, also when the other terms' columns are cached
    P = abelian_ring(3, 2, cap=12)
    act = abelian_action(P, max_index=1)
    low = P.gen("x1") * P.gen("y1")  # degree 3: Q_1 lands in 8
    high = P.gen("x2") * P.gen("y2") ** 4  # degree 9: Q_1 lands in 14
    higher = P.gen("x1") * P.gen("y1") ** 5  # degree 11: Q_1 lands in 16
    act.apply(1, low)
    for terms in ({**low.terms, **high.terms, **higher.terms},
                  {**low.terms, **higher.terms, **high.terms}):
        with pytest.raises(DegreeCapError) as want:
            uncached_apply(act, 1, terms)
        with pytest.raises(DegreeCapError) as got:
            act.apply_raw_terms(1, terms)
        assert str(got.value) == str(want.value)
    assert str(got.value) == "Q_1 lands in degree 16, above cap"
