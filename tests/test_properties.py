"""Randomized axiom suites across every built-in scenario.

Each property runs at least a thousand seeded checks spread over the
scenario registry; failures print the scenario and the offending inputs.
"""

import random

import pytest

from coniveau import _kernels, fp
from coniveau import certificates as C
from coniveau.fp import Generator, GradedPresentation
from coniveau.milnor import QAction, op_degree

from helpers import (
    element_vector,
    oracle_ideal_dimension,
    oracle_in_span,
    oracle_monomials,
    oracle_rref,
)

SEED = 0x5EED


def scenario_pool():
    pool = []
    for ctor in C.builtin_scenarios().values():
        s = ctor()
        if isinstance(s, C.QModuleScenario) or s.q_action is None:
            continue
        pool.append(s)
    return pool


POOL = scenario_pool()


def random_homogeneous(rng, pres, max_degree, nterms=3):
    max_degree = max(1, min(max_degree, pres.degree_cap))
    for _ in range(8):
        d = rng.randint(1, max_degree)
        monos = pres.monomials(d)
        if monos:
            terms = {}
            for _ in range(rng.randint(1, nterms)):
                m = monos[rng.randrange(len(monos))]
                terms[m] = rng.randint(1, pres.prime - 1)
            e = pres.element(terms)
            if not e.is_zero():
                return e
    return pres.gen(pres.generators[0].name)


def index_bound(scenario, reserve):
    """Largest operation index usable with `reserve` applications left
    inside the cap for small-degree inputs."""
    from coniveau.milnor import op_degree

    cap = scenario.detect_pres.degree_cap
    top = 0
    for i in range(scenario.q_action.max_index + 1):
        if 10 + reserve * op_degree(scenario.prime, i) <= cap:
            top = i
    return top


def test_leibniz_rule():
    from coniveau.milnor import op_degree

    rng = random.Random(SEED)
    checks = 0
    while checks < 1000:
        for s in POOL:
            pres, act = s.detect_pres, s.q_action
            i = rng.randint(0, index_bound(s, 1))
            budget = pres.degree_cap - op_degree(s.prime, i)
            a = random_homogeneous(rng, pres, min(5, budget - 1))
            b = random_homogeneous(rng, pres, min(4, budget - a.degree()))
            sign = -1 if (s.prime != 2 and a.degree() % 2) else 1
            lhs = act.apply(i, a * b)
            rhs = act.apply(i, a) * b + sign * (a * act.apply(i, b))
            assert lhs == rhs, (s.name, i, str(a), str(b))
            checks += 1
    print(f"leibniz: {checks} checks")
    assert checks >= 1000


def test_anticommutation():
    rng = random.Random(SEED + 1)
    checks = 0
    while checks < 1000:
        for s in POOL:
            pres, act = s.detect_pres, s.q_action
            top = index_bound(s, 2)
            i = rng.randint(0, top)
            j = rng.randint(0, top)
            e = random_homogeneous(rng, pres, 6)
            lhs = act.apply(i, act.apply(j, e))
            rhs = act.apply(j, act.apply(i, e))
            assert (lhs + rhs).is_zero(), (s.name, i, j, str(e))
            checks += 1
    print(f"anticommutation: {checks} checks")
    assert checks >= 1000


def test_nilpotence():
    rng = random.Random(SEED + 2)
    checks = 0
    while checks < 1000:
        for s in POOL:
            pres, act = s.detect_pres, s.q_action
            i = rng.randint(0, index_bound(s, 2))
            e = random_homogeneous(rng, pres, 6)
            assert act.apply(i, act.apply(i, e)).is_zero(), (s.name, i, str(e))
            checks += 1
    print(f"nilpotence: {checks} checks")
    assert checks >= 1000


def exterior_free_intersection():
    """F_3[y1, y2] (x) Lambda(x1, x2) modulo (y1 + y2)^3 and (y1 - y2)^4: a
    complete intersection whose relations hold no exterior generator."""
    gens = [Generator("y1", 2), Generator("x1", 1), Generator("y2", 2), Generator("x2", 3)]
    P = GradedPresentation(3, gens, 14)
    y1, y2 = P.gen("y1"), P.gen("y2")
    return P.quotient([(y1 + y2) ** 3, (y1 - y2) ** 4])


def disjoint_relations():
    """Relations on disjoint generator sets over F_5: one on the exterior
    x1, x2, x3 and two on the polynomial y1, y2."""
    gens = [Generator(f"x{i}", 1) for i in (1, 2, 3)] + [Generator("y1", 2), Generator("y2", 2)]
    P = GradedPresentation(5, gens, 10)
    x1, x2, x3, y1, y2 = P.gens()
    return P.quotient([x1 * x2 + 2 * x2 * x3, y1**2 - 3 * y2**2, y1**3 + y1 * y2**2])


def quotient_pool():
    rings = [
        C.extraspecial_e4(2, 3),
        C.comparison_regular_pair(3, 24)[1],
        C.quillen_d_ring(2),
        C._lambda_mod_f(2, 3),
        C._lambda_mod_f(2, 2),
        exterior_free_intersection(),
        disjoint_relations(),
    ]
    return rings


def macaulay_echelon(pres, degree):
    """Oracle echelon form of the degree's Macaulay rows: every cofactor
    monomial times every relation, multiplied in the free presentation."""
    rows = []
    for r in pres.relations:
        if r.degree() <= degree:
            for cof in pres.monomials(degree - r.degree()):
                rows.append(element_vector(pres.free.monomial(cof) * r, degree))
    return oracle_rref(rows, pres.prime)


def test_normal_form_against_macaulay_oracle():
    # pres.element(raw) differs from raw by a combination of Macaulay rows and
    # has no term on an oracle pivot column: it is the normal form
    rng = random.Random(SEED + 3)
    rings = quotient_pool()
    echelon = {}
    checks = 0
    while checks < 1000:
        for pres in rings:
            p = pres.prime
            d = rng.randint(1, min(8, pres.degree_cap))
            monos = pres.monomials(d)
            if not monos:
                continue
            raw = {}
            for _ in range(rng.randint(1, 4)):
                # any integer coefficient, multiples of p included
                raw[monos[rng.randrange(len(monos))]] = rng.randint(-2 * p, 2 * p)
            e = pres.element(raw)
            if (id(pres), d) not in echelon:
                echelon[id(pres), d] = macaulay_echelon(pres, d)
            rows, pivots = echelon[id(pres), d]
            index = {m: i for i, m in enumerate(monos)}
            diff = [0] * len(monos)
            for m, c in raw.items():
                diff[index[m]] += c
            for m, c in e.terms.items():
                assert 0 < c < p, (str(pres), raw, str(e))
                assert index[m] not in pivots, (str(pres), raw, str(e))
                diff[index[m]] -= c
            assert oracle_in_span(diff, rows, p), (str(pres), raw, str(e))
            checks += 1
    print(f"normal forms against the Macaulay oracle: {checks} checks")
    assert checks >= 1000


def test_dimension_against_ideal_oracle():
    # standard-monomial counts against the rank of brute cofactor x relation
    # products, exterior rings included
    checks = 0
    for pres in quotient_pool():
        for d in range(min(pres.degree_cap, 10) + 1):
            free = len(pres.monomials(d))
            want = free - oracle_ideal_dimension(pres.free, pres.relations, d)
            assert pres.dimension(d) == want, (str(pres), d)
            checks += 1
    print(f"dimensions against the ideal oracle: {checks} checks")


def unit_relation():
    """F_3[y] (x) Lambda(x) modulo x*y and the unit 2: the zero ring."""
    P = GradedPresentation(3, [Generator("y", 2), Generator("x", 1)], 8)
    return P.quotient([P.gen("x") * P.gen("y"), 2 * P.one()])


def test_standard_monomials_against_divisibility_filter():
    # the bases grown from lower degrees are the free monomials that no
    # leading monomial divides, in descending lex order; the divisor lookup
    # finds the lowest-index lead that divides a monomial
    checks = 0
    for pres in quotient_pool() + [unit_relation()]:
        degrees = [g.degree for g in pres.generators]
        odd = [pres.prime != 2 and d % 2 == 1 for d in degrees]
        for d in range(min(pres.degree_cap, 10) + 1):
            basis = [next(iter(b.terms)) for b in pres.graded_basis(d)]
            monos = oracle_monomials(degrees, odd, d)
            divisors = [
                next((k for k, g in enumerate(pres._leads) if all(map(int.__ge__, m, g))), None)
                for m in monos
            ]
            want = [m for m, k in zip(monos, divisors) if k is None]
            assert basis == want, (str(pres), d)
            assert pres.dimension(d) == len(want), (str(pres), d)
            assert [pres._divisor(m) for m in monos] == divisors, (str(pres), d)
            checks += 1
    print(f"standard monomials against the divisibility filter: {checks} checks")


def operation_pool(rng):
    """(ring, action) pairs on ``quotient_pool()``: the elementary-abelian
    table on the rings it fits, and a seeded random table on every ring."""
    e4_page, lambda_f2 = C.extraspecial_e4(2, 3), C._lambda_mod_f(2, 2)
    pairs = [(pres, C._abelian_q_action(pres, 1)) for pres in (e4_page, lambda_f2)]
    for pres in quotient_pool():
        table = {}
        for i in range(2):
            for g in pres.generators:
                d = g.degree + op_degree(pres.prime, i)
                if d <= pres.degree_cap:
                    monos = pres.monomials(d)
                    terms = {}
                    for _ in range(3 if monos else 0):
                        terms[monos[rng.randrange(len(monos))]] = rng.randrange(pres.prime)
                    table[i, g.name] = pres.element(terms)
        pairs.append((pres, QAction(pres, table, max_index=1)))
    return pairs


def term_by_term(action, i, e):
    """Q_i(e) as the sum of reduced products monomial(left) * Q_i(g_k) *
    monomial(right), one Leibniz term at a time."""
    pres, p = action.pres, action.pres.prime
    out = pres.zero()
    for m, c in e.terms.items():
        prefix = 0
        for k, (g, ek) in enumerate(zip(pres.generators, m)):
            if ek:
                sign = -1 if (p != 2 and prefix % 2) else 1
                left = list(m[:k]) + [ek - 1] + [0] * (len(m) - k - 1)
                right = [0] * (k + 1) + list(m[k + 1:])
                entry = action.entry(i, g.name)
                out = out + pres.monomial(left, sign * ek * c) * entry * pres.monomial(right)
            prefix += ek * g.degree
    return out


def test_q_application_matches_term_by_term_products():
    # the Leibniz terms are summed raw and reduced once; the sum of the
    # reduced term-by-term products is the same normal form
    rng = random.Random(SEED + 6)
    checks = nonzero = 0
    while checks < 1000:
        for pres, action in operation_pool(rng):
            for _ in range(10):
                i = rng.randint(0, action.max_index)
                room = pres.degree_cap - op_degree(pres.prime, i)
                if room < 1:
                    continue
                e = random_homogeneous(rng, pres, room, nterms=4)
                got = action.apply(i, e)
                assert got == term_by_term(action, i, e), (str(pres), i, str(e))
                nonzero += not got.is_zero()
                checks += 1
    print(f"Q applications against term-by-term products: {checks} checks, {nonzero} nonzero")
    assert nonzero > checks // 4


def test_regular_pair_truncated_basis(monkeypatch):
    # the regular pair's Hilbert series through degree 44 comes from a
    # 4-element truncated Groebner basis and a few small S-pair matrices, in
    # place of Macaulay matrices of up to 4,105,500 cells; reducers are
    # filled on first use, without an rref call, and hold no dense array
    shapes, built = [], []
    rref, build = _kernels.rref, fp.GradedPresentation._build_degree

    def recording_rref(mat, p):
        shapes.append(mat.shape)
        return rref(mat, p)

    def recording_build(self, degree):
        built.append((self, degree))
        return build(self, degree)

    monkeypatch.setattr(_kernels, "rref", recording_rref)
    monkeypatch.setattr(fp.GradedPresentation, "_build_degree", recording_build)
    report, quotient, _ = C.comparison_regular_pair(3, 44)
    assert report.regular
    (pair,) = {id(pres): pres for pres, _ in built if pres.relations}.values()
    assert len(pair._basis) == 4
    assert max(rows * cols for rows, cols in shapes) <= 1_000_000
    assert not any(pres._reducers for pres, _ in built)
    # once the quotient's basis is complete through degree 44, a degree-44
    # normal form fills the reducers it meets on dict rows: the rref calls
    # are the Groebner basis steps only
    y4 = quotient.gen("y4")
    assert quotient.dimension(44)
    steps = len(shapes)
    assert not (y4**22).is_zero()
    assert quotient._reducers[44]
    assert len(shapes) == steps
    filled = 0
    for pres, d in built:
        reducer = pres._reducers.get(d, {})
        assert all(isinstance(row, tuple) for row in reducer.values())
        # pivots, and the entries of each row, in free-monomial column order
        index = pres._column_index(d)
        pivots = [index[m] for m in reducer]
        assert pivots == sorted(pivots)
        for row in reducer.values():
            cols = [index[b] for b, _ in row]
            assert cols == sorted(cols)
            filled += len(row) > 1
    assert filled


def test_regular_pair_lists_no_monomials():
    # the pair's dimensions and the polynomial ring's are counted from their
    # leading monomials, so neither the pair nor the polynomial ring, which
    # holds the free monomials of the pair, lists any degree
    report, quotient, _ = C.comparison_regular_pair(3, 44)
    assert report.regular
    assert quotient.free.hilbert_series(44)[44] == 2300
    assert quotient.hilbert_series(44) == list(report.quotient_series)
    assert not quotient.free._standard
    assert not quotient._standard


def test_graded_commutativity():
    rng = random.Random(SEED + 4)
    checks = 0
    while checks < 1000:
        for s in POOL:
            pres = s.detect_pres
            a = random_homogeneous(rng, pres, min(5, pres.degree_cap - 1))
            b = random_homogeneous(rng, pres, min(5, pres.degree_cap - a.degree()))
            sign = -1 if (s.prime != 2 and a.degree() % 2 and b.degree() % 2) else 1
            assert a * b == sign * (b * a), (s.name, str(a), str(b))
            checks += 1
    print(f"graded commutativity: {checks} checks")
    assert checks >= 1000


def test_associativity_and_distributivity():
    rng = random.Random(SEED + 5)
    checks = 0
    for s in POOL:
        pres = s.detect_pres
        for _ in range(25):
            a = random_homogeneous(rng, pres, min(4, pres.degree_cap - 2))
            rest = pres.degree_cap - a.degree()
            b = random_homogeneous(rng, pres, min(3, rest - 1))
            c = random_homogeneous(rng, pres, min(3, rest - b.degree()))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            checks += 1
    print(f"ring laws: {checks} checks")
    assert checks >= 250
